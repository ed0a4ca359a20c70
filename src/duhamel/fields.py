"""Scalar/vector fields on grids and the shared differential operators.

Derivatives are spectral on periodic grids and finite-difference otherwise
(4th-order central stencils in the interior, 2nd-order one-sided at the
boundary).  All field objects are immutable after construction; every
operation returns a new field, so shared inputs are safe under concurrency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid

__all__ = [
    "ScalarField",
    "VectorField",
    "Trajectory",
    "gradient",
    "laplacian",
    "curl_residual",
]


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
    metadata: dict = field(default_factory=dict)

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

    def at_time(self, t: float, rtol: float = 1e-9):
        """Snapshot whose time matches ``t`` (within a relative tolerance)."""
        scale = max(abs(t), self.times[-1], 1e-300)
        for ti, snap in zip(self.times, self.snapshots):
            if abs(ti - t) <= rtol * scale:
                return snap
        raise KeyError(f"no snapshot at t={t}")

    def is_uniform(self, rtol: float = 1e-9) -> bool:
        if len(self.times) < 3:
            return True
        dt = np.diff(self.times)
        return bool(np.max(np.abs(dt - dt[0])) <= rtol * dt[0])


# ---------------------------------------------------------------------------
# differential operators


def _spectral_derivative(values: np.ndarray, grid: Grid, axis: int, order: int) -> np.ndarray:
    k = grid.wavenumbers(axis)
    shape = [1] * grid.ndim
    shape[axis] = len(k)
    symbol = (1j * k) ** order
    if order % 2 == 0:
        symbol = symbol.real
    else:
        # zero out the unpaired Nyquist mode so odd derivatives stay real
        if len(k) % 2 == 0:
            symbol = symbol.copy()
            symbol[len(k) // 2] = 0.0
    spec = np.fft.fft(values, axis=axis) * symbol.reshape(shape)
    return np.fft.ifft(spec, axis=axis).real


def _fd_first(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    v = np.moveaxis(values, axis, -1)
    out = np.empty_like(v)
    n = v.shape[-1]
    # 4th-order central in the interior
    out[..., 2 : n - 2] = (
        v[..., : n - 4] - 8.0 * v[..., 1 : n - 3] + 8.0 * v[..., 3 : n - 1] - v[..., 4:n]
    ) / (12.0 * h)
    # 2nd-order central one cell from the edge
    out[..., 1] = (v[..., 2] - v[..., 0]) / (2.0 * h)
    out[..., n - 2] = (v[..., n - 1] - v[..., n - 3]) / (2.0 * h)
    # 2nd-order one-sided at the edge
    out[..., 0] = (-3.0 * v[..., 0] + 4.0 * v[..., 1] - v[..., 2]) / (2.0 * h)
    out[..., n - 1] = (3.0 * v[..., n - 1] - 4.0 * v[..., n - 2] + v[..., n - 3]) / (2.0 * h)
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


def derivative(field: ScalarField, axis: int, order: int = 1) -> ScalarField:
    """Partial derivative of given order along one axis."""
    if order not in (1, 2):
        raise ValueError("only first and second derivatives are provided")
    grid = field.grid
    if grid.is_periodic:
        out = _spectral_derivative(field.values, grid, axis, order)
    elif order == 1:
        out = _fd_first(field.values, grid.spacing[axis], axis)
    else:
        out = _fd_second(field.values, grid.spacing[axis], axis)
    return ScalarField(grid, out)


def gradient(field: ScalarField) -> VectorField:
    """Componentwise spatial gradient."""
    grid = field.grid
    comps = tuple(derivative(field, d).values for d in range(grid.ndim))
    return VectorField(grid, comps)


def laplacian(field: ScalarField) -> ScalarField:
    """Sum of unmixed second derivatives."""
    grid = field.grid
    out = np.zeros(grid.shape)
    for d in range(grid.ndim):
        out = out + derivative(field, d, order=2).values
    return ScalarField(grid, out)


def curl_residual(u: VectorField) -> float:
    """Max over nodes and index pairs of |d_i u_j - d_j u_i|.

    Zero for 1D fields, and at discretization level for sampled gradients.
    """
    grid = u.grid
    if grid.ndim == 1:
        return 0.0
    worst = 0.0
    for i in range(grid.ndim):
        for j in range(i + 1, grid.ndim):
            diuj = derivative(u.component(j), i).values
            djui = derivative(u.component(i), j).values
            worst = max(worst, float(np.max(np.abs(diuj - djui))))
    return worst
