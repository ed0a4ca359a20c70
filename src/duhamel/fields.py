"""Scalar/vector fields on grids and the shared differential operators.

Periodic derivatives multiply the half spectrum of the heat kernel's own
transform pair (``grid.padded_torus``) by i k_d or -|k|^2.  Otherwise they are
finite differences: the first derivative is 4th order at every node, the
second is 4th order inside with 2nd-order boundary closures.  All field
objects are immutable after construction; every operation returns a new
field, so shared inputs are safe under concurrency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, padded_torus

__all__ = [
    "ScalarField",
    "VectorField",
    "Trajectory",
    "gradient",
    "laplacian",
    "curl_residual",
]

_TIME_RTOL = 1e-9  # relative tolerance of time matching


def _freeze(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64).reshape(shape)
    if not np.isfinite(arr).all():
        raise ValueError("field values must all be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    """One real value per grid node, row-major."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values, self.grid.shape))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class VectorField:
    """One real vector (ndim components) per grid node."""

    grid: Grid
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        comps = tuple(_freeze(c, self.grid.shape) for c in self.components)
        if len(comps) != self.grid.ndim:
            raise ValueError(f"expected {self.grid.ndim} components, got {len(comps)}")
        object.__setattr__(self, "components", comps)

    @property
    def max_norm(self) -> float:
        """Max over nodes of the Euclidean component norm."""
        sq = sum(c * c for c in self.components)
        return float(np.sqrt(np.max(sq)))

    def component(self, axis: int) -> ScalarField:
        return ScalarField(self.grid, self.components[axis])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed stack of fields on one common grid."""

    times: tuple[float, ...]
    snapshots: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        snaps = tuple(self.snapshots)
        object.__setattr__(self, "snapshots", snaps)
        if len(times) != len(snaps):
            raise ValueError("times and snapshots must have equal length")
        if not snaps:
            raise ValueError("trajectory needs at least one snapshot")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        if times[0] < 0.0:
            raise ValueError("times must lie in [0, T]")
        grid = snaps[0].grid
        if any(s.grid != grid for s in snaps):
            raise ValueError("all snapshots must share one grid")

    @property
    def grid(self) -> Grid:
        return self.snapshots[0].grid

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.snapshots))

    def at_time(self, t: float):
        """Snapshot whose time matches ``t`` (within a relative tolerance)."""
        scale = max(abs(t), self.times[-1], 1e-300)
        for ti, snap in zip(self.times, self.snapshots):
            if abs(ti - t) <= _TIME_RTOL * scale:
                return snap
        raise KeyError(f"no snapshot at t={t}")


# ---------------------------------------------------------------------------
# differential operators


def _fd_first(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order first derivative at every node: the central five-point
    stencil inside, offset stencils one node from each end and one-sided
    five-point stencils at the ends, so cubics and quartics are exact."""
    v = np.moveaxis(values, axis, -1)
    out = np.empty_like(v)
    n = v.shape[-1]
    out[..., 2 : n - 2] = (
        v[..., : n - 4] - 8.0 * v[..., 1 : n - 3] + 8.0 * v[..., 3 : n - 1] - v[..., 4:n]
    ) / (12.0 * h)
    # offset stencil one node in and one-sided stencil at the end, mirrored on the right
    for sign, w, o in ((1.0, v, out), (-1.0, v[..., ::-1], out[..., ::-1])):
        o[..., 1] = sign * (
            -3.0 * w[..., 0] - 10.0 * w[..., 1] + 18.0 * w[..., 2] - 6.0 * w[..., 3] + w[..., 4]
        ) / (12.0 * h)
        o[..., 0] = sign * (
            -25.0 * w[..., 0] + 48.0 * w[..., 1] - 36.0 * w[..., 2]
            + 16.0 * w[..., 3] - 3.0 * w[..., 4]
        ) / (12.0 * h)
    return np.moveaxis(out, -1, axis)


def _fd_second(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    v = np.moveaxis(values, axis, -1)
    out = np.empty_like(v)
    n = v.shape[-1]
    h2 = h * h
    out[..., 2 : n - 2] = (
        -v[..., : n - 4]
        + 16.0 * v[..., 1 : n - 3]
        - 30.0 * v[..., 2 : n - 2]
        + 16.0 * v[..., 3 : n - 1]
        - v[..., 4:n]
    ) / (12.0 * h2)
    out[..., 1] = (v[..., 0] - 2.0 * v[..., 1] + v[..., 2]) / h2
    out[..., n - 2] = (v[..., n - 3] - 2.0 * v[..., n - 2] + v[..., n - 1]) / h2
    out[..., 0] = (2.0 * v[..., 0] - 5.0 * v[..., 1] + 4.0 * v[..., 2] - v[..., 3]) / h2
    out[..., n - 1] = (
        2.0 * v[..., n - 1] - 5.0 * v[..., n - 2] + 4.0 * v[..., n - 3] - v[..., n - 4]
    ) / h2
    return np.moveaxis(out, -1, axis)


def gradient(field: ScalarField) -> VectorField:
    """Componentwise spatial gradient."""
    grid = field.grid
    if grid.is_periodic:
        torus = padded_torus(grid)
        spectrum = torus.forward(field.values)
        comps = tuple(torus.inverse(ik * spectrum) for ik in torus.ik)
    else:
        comps = tuple(_fd_first(field.values, h, d) for d, h in enumerate(grid.spacing))
    return VectorField(grid, comps)


def laplacian(field: ScalarField) -> ScalarField:
    """Sum of unmixed second derivatives."""
    grid = field.grid
    if grid.is_periodic:
        torus = padded_torus(grid)
        return ScalarField(grid, torus.inverse(-torus.k2 * torus.forward(field.values)))
    return ScalarField(grid, sum(_fd_second(field.values, h, d) for d, h in enumerate(grid.spacing)))


def curl_residual(u: VectorField) -> float:
    """Max over nodes and index pairs of |d_i u_j - d_j u_i|.

    Zero for 1D fields, and at discretization level for sampled gradients.
    """
    grid = u.grid
    if grid.ndim == 1:
        return 0.0
    # jac[j][i] = d_i u_j
    jac = [gradient(u.component(j)).components for j in range(grid.ndim)]
    worst = 0.0
    for i in range(grid.ndim):
        for j in range(i + 1, grid.ndim):
            worst = max(worst, float(np.max(np.abs(jac[j][i] - jac[i][j]))))
    return worst
