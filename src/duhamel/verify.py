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

from .fields import ScalarField, Trajectory
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

MAX_MODE = 3  # modes per axis of a band-limited field
KEY_TIMES = 4  # key times of a random sampled forcing
N_WAVES = 6  # plane waves of a random Lipschitz potential
TIME_SAMPLES = 33  # time slices of a manufactured case's positivity scan


def _periodic_laplacian_4th(n: int, h: float) -> csc_matrix:
    """4th-order central second-derivative matrix with wrap-around."""
    coeff = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    # the band, then its wrap-around corners as the diagonals at n-1, n-2, 1-n, 2-n
    return diags([*coeff, coeff[1], coeff[0], coeff[3], coeff[4]],
                 [-2, -1, 0, 1, 2, n - 1, n - 2, 1 - n, 2 - n], shape=(n, n), format="csc")


def _steps(horizon: float, dt: float) -> int:
    """The number of steps of size ``dt`` in ``horizon``, which must be whole."""
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise ValueError("horizon must be an integer number of steps")
    return n_steps


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
    n_steps = _steps(horizon, dt)

    # lhs = I - dt/2 (lap + diag(f_new)): only its diagonal changes per step,
    # so the CSC matrix is built once and its diagonal entries are rewritten
    lhs = sparse_identity(n, format="csc") - 0.5 * dt * lap
    columns = np.repeat(np.arange(n), np.diff(lhs.indptr))
    diagonal = np.flatnonzero(lhs.indices == columns)
    base = lhs.data[diagonal].copy()

    times = [step * dt for step in range(n_steps + 1)]
    f_stack = F.sample(grid, times)
    out = np.empty((n_steps + 1, n))
    out[0] = u = G0.values
    for step in range(n_steps):
        f_old, f_new = f_stack[step], f_stack[step + 1]
        rhs = u + 0.5 * dt * (lap @ u + f_old * u)
        lhs.data[diagonal] = base - 0.5 * dt * f_new
        out[step + 1] = u = splu(lhs).solve(rhs)
    return _at_times(Trajectory(grid, times, out), output_times)


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
    n_steps = _steps(horizon, dt)

    out = np.empty((n_steps + 1, *grid.shape))
    out[0] = u = u0.values
    for step in range(n_steps):
        flux = 0.5 * u * u
        dflux = (np.roll(flux, -1) - np.roll(flux, 1)) / (2.0 * h)
        lap = (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (h * h)
        out[step + 1] = u = u - dt * dflux + dt * lap
    return _at_times(Trajectory(grid, [step * dt for step in range(n_steps + 1)], out), output_times)


def _at_times(traj: Trajectory, output_times) -> Trajectory:
    """``traj``, or its rows at ``output_times`` when they are given."""
    if output_times is None:
        return traj
    return Trajectory(traj.grid, output_times, np.array([traj.at_time(t) for t in output_times]))


# ---------------------------------------------------------------------------
# manufactured solutions


@dataclass(frozen=True, eq=False)
class ManufacturedCase:
    """Prescribed exact solution with the forcing that manufactures it."""

    grid: Grid
    horizon: float
    G0: ScalarField
    F: Forcing
    _g_fn: object

    def exact_G(self, t: float) -> ScalarField:
        mesh = self.grid.meshgrid()
        return ScalarField(self.grid, self._g_fn(*mesh, t) * np.ones(self.grid.shape))


def make_manufactured(expr: str, grid: Grid, horizon: float) -> ManufacturedCase:
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
    for t in np.linspace(0.0, horizon, TIME_SAMPLES):
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

    forcing = Forcing.from_callable(lambda t, *xyz: f_fn(*xyz, t))

    return ManufacturedCase(
        grid=grid,
        horizon=horizon,
        G0=ScalarField(grid, g_fn(*mesh, 0.0) * ones),
        F=forcing,
        _g_fn=g_fn,
    )


# ---------------------------------------------------------------------------
# random smooth test data (seeded)


def band_limited_field(grid: Grid, rng: np.random.Generator,
                       amplitude: float = 1.0, offset: float = 0.0) -> ScalarField:
    """Random low-mode trigonometric field with |field - offset| <= amplitude."""
    vals = np.zeros(grid.shape)
    for d in range(grid.ndim):
        x = grid.coords(d)
        base = 2.0 * np.pi / grid.extent(d)
        shape = [1] * grid.ndim
        shape[d] = len(x)
        for k in range(1, MAX_MODE + 1):
            amp = rng.normal()
            phase = rng.uniform(0, 2 * np.pi)
            vals = vals + (amp * np.cos(k * base * x + phase)).reshape(shape)
    peak = max(float(np.max(np.abs(vals))), 1e-12)
    return ScalarField(grid, offset + amplitude * vals / peak)


def random_bounded_forcing(grid: Grid, rng: np.random.Generator, horizon: float,
                           bound: float) -> Forcing:
    """Sampled-stack forcing with |F| <= bound."""
    times = np.linspace(0.0, horizon, KEY_TIMES)
    stack = np.stack([band_limited_field(grid, rng, amplitude=bound).values for _ in times])
    return Forcing.from_samples(grid, times, stack)


def random_lipschitz_potential(grid: Grid, rng: np.random.Generator, c: float, a: float):
    """Smooth phi with |grad phi| <= c and phi(0) = a, as a callable.

    Superposition of plane waves whose amplitude-weighted wavenumbers sum to
    at most c, shifted so the value at the origin is exactly a.
    """
    dirs = rng.normal(size=(N_WAVES, grid.ndim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    freqs = rng.uniform(0.3, 1.5, size=N_WAVES)
    phases = rng.uniform(0, 2 * np.pi, size=N_WAVES)
    raw_amps = rng.uniform(0.2, 1.0, size=N_WAVES)
    budget = float(np.sum(raw_amps * freqs))
    amps = raw_amps * (c / budget) * rng.uniform(0.6, 0.95)

    def phi(*coords):
        out = np.full(np.broadcast(*coords).shape if len(coords) > 1 else np.shape(coords[0]), float(a))
        for m in range(N_WAVES):
            arg = sum(freqs[m] * dirs[m, d] * coords[d] for d in range(grid.ndim))
            out = out + amps[m] * (np.sin(arg + phases[m]) - np.sin(phases[m]))
        return out

    return phi
