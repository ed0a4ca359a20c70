"""Scalar/vector fields and trajectories on grids, and every operator on
grid samples: the gradient, its periodic inverse and the Laplacian, the curl
check and the corrected cumulative trapezoid.

A ``Trajectory`` is one node stack, row m holding the field at its m-th
time, like the series solver's own stacks.  Periodic derivatives multiply
the half spectrum of the heat kernel's own transform pair
(``grid.padded_torus``, on ``numpy.fft``) by i k_d or -|k|^2, each symbol
scaled by the torus's ``scale`` to normalise its inverse.  Otherwise they
are finite differences: the first derivative is 4th order at every node,
the second is 4th order inside with 2nd-order boundary closures.  The
corrected trapezoid takes its endpoint slopes from the same first-derivative
stencils.  The private operators act on the trailing grid axes, so one path
serves a field and a stack of fields.  All field objects are immutable after
construction; every operation returns a new field, so shared inputs are safe
under concurrency.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import Grid, padded_torus

__all__ = [
    "ScalarField",
    "VectorField",
    "Trajectory",
    "corrected_cumulative_trapezoid",
    "curl_residual",
]

_TIME_RTOL = 1e-9  # relative tolerance of time matching
# the least subgrid points per axis on which the Richardson curl estimate is
# trusted: on fewer, the one-sided end stencils take most of the subgrid
_RICHARDSON_MIN_POINTS = 16


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
        # hypot squares nothing, so a component past 1.34e154 does not overflow
        return float(np.max(functools.reduce(np.hypot, self.components, 0.0)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Fields at strictly increasing times >= 0, as one read-only node stack.

    ``values`` is ``(n, *grid.shape)`` for a scalar trajectory and
    ``(n, grid.ndim, *grid.shape)`` for a vector one; row m is the field at
    ``times[m]``.
    """

    grid: Grid
    times: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if not times:
            raise ValueError("trajectory needs at least one time")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        if times[0] < 0.0:
            raise ValueError("times must lie in [0, T]")
        shape = np.shape(self.values)
        grid = self.grid
        if shape not in ((len(times), *grid.shape), (len(times), grid.ndim, *grid.shape)):
            raise ValueError(f"values of shape {shape} do not fit {len(times)} times on a {grid.shape} grid")
        object.__setattr__(self, "values", _freeze(self.values, shape))

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def at_time(self, t: float) -> np.ndarray:
        """The row whose time matches ``t`` (within a relative tolerance)."""
        scale = max(abs(t), self.times[-1], 1e-300)
        for ti, row in self:
            if abs(ti - t) <= _TIME_RTOL * scale:
                return row
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


def corrected_cumulative_trapezoid(samples: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Cumulative trapezoid with h^2/12 endpoint-derivative corrections, the
    Euler-Maclaurin endpoint terms that lift the composite rule from 2nd to
    4th order without leaving the sample grid.

    ``I_m = trapezoid(f_0..f_m) - h^2/12 * (f'_m - f'_0)``, with the slopes
    estimated from the samples themselves by the five-point stencils of
    ``_fd_first``, so at least 5 samples are needed along ``axis``
    (``ValueError`` otherwise).  Exact for cubics; 4th-order accurate for
    smooth integrands.  Line integrals of sampled velocity fields need that
    extra accuracy to stay below the potential reconstruction budgets.
    """
    v = np.moveaxis(np.asarray(samples, dtype=float), axis, -1)
    if v.shape[-1] < 5:
        raise ValueError(f"the corrected trapezoid needs at least 5 samples, got {v.shape[-1]}")
    base = np.zeros_like(v)
    np.cumsum(0.5 * h * (v[..., 1:] + v[..., :-1]), axis=-1, out=base[..., 1:])
    slopes = _fd_first(v, h, -1)
    base[..., 1:] -= (h * h / 12.0) * (slopes[..., 1:] - slopes[..., 0:1])
    return np.moveaxis(base, -1, axis)


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


def _spectral(grid: Grid, values: np.ndarray, symbols) -> list[np.ndarray]:
    """Grid values of the half spectrum of ``values`` times each symbol, from
    one forward transform (periodic grids)."""
    torus = padded_torus(grid)
    spectrum = torus.forward(values)
    return [torus.inverse((torus.scale * symbol) * spectrum) for symbol in symbols]


def _gradient(grid: Grid, values: np.ndarray) -> list[np.ndarray]:
    """Gradient components of ``values``."""
    if grid.is_periodic:
        return _spectral(grid, values, padded_torus(grid).ik)
    return [_fd_first(values, h, d - grid.ndim) for d, h in enumerate(grid.spacing)]


def _inverse_gradient(grid: Grid, spectra) -> np.ndarray:
    """Zero-mean phi whose gradient has the half spectra ``spectra`` (periodic
    grids): phi^ = -(sum_d i k_d u^_d)/|k|^2 off k = 0, and 0 at k = 0.  A
    non-zero mode whose |k|^2 underflows to 0 raises ``ValueError``."""
    torus = padded_torus(grid)
    nonzero = torus.k2 != 0
    if np.count_nonzero(nonzero) < nonzero.size - 1:
        raise ValueError("potential: the torus potential overflows, as |k|^2 underflows to 0")
    divergence = sum(ik * spectrum for ik, spectrum in zip(torus.ik, spectra))
    phi = np.divide(divergence, torus.k2, out=np.zeros_like(divergence), where=nonzero)
    return torus.inverse(-torus.scale * phi)


def _gradient_and_laplacian(grid: Grid, values: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradient components and Laplacian of ``values``; on a periodic grid
    from one forward transform."""
    if grid.is_periodic:
        torus = padded_torus(grid)
        *comps, lap = _spectral(grid, values, (*torus.ik, -torus.k2))
        return comps, lap
    lap = sum(_fd_second(values, h, d - grid.ndim) for d, h in enumerate(grid.spacing))
    return _gradient(grid, values), lap


def _stencil_curls(components, spacing) -> list[np.ndarray]:
    """d_i u_j - d_j u_i for each index pair i < j, by the 4th-order stencil."""
    ndim = len(components)
    return [_fd_first(components[j], spacing[i], i) - _fd_first(components[i], spacing[j], j)
            for i in range(ndim) for j in range(i + 1, ndim)]


def curl_residual(u: VectorField) -> tuple[float, float | None]:
    """Max over nodes and index pairs of |d_i u_j - d_j u_i|, and an
    estimate of its discretization error.

    The residual is zero for 1D fields, and at discretization level for
    sampled gradients.  On a periodic grid each component is transformed
    once, and each index pair takes one inverse transform of
    i k_i u_j - i k_j u_i.  On a free-space grid the curl is the 4th-order
    stencil's, and the estimate is its Richardson truncation error
    max |c_h - c_2h| / 15, where c_2h is the curl on the every-other-node
    subgrid and c_h is read at the same nodes.  The estimate is ``None`` on
    periodic and 1D grids, and where the subgrid has fewer than
    ``_RICHARDSON_MIN_POINTS`` points along an axis.
    """
    grid = u.grid
    if grid.ndim == 1:
        return 0.0, None
    if grid.is_periodic:
        torus = padded_torus(grid)
        spectra = [torus.forward(c) for c in u.components]
        iks = [torus.scale * ik for ik in torus.ik]
        curls = [torus.inverse(iks[i] * spectra[j] - iks[j] * spectra[i])
                 for i in range(grid.ndim) for j in range(i + 1, grid.ndim)]
        return max(float(np.max(np.abs(c))) for c in curls), None
    fine = _stencil_curls(u.components, grid.spacing)
    residual = max(float(np.max(np.abs(c))) for c in fine)
    if min((n + 1) // 2 for n in grid.points) < _RICHARDSON_MIN_POINTS:
        return residual, None
    sub = (slice(None, None, 2),) * grid.ndim
    coarse = _stencil_curls([c[sub] for c in u.components], [2.0 * h for h in grid.spacing])
    return residual, max(float(np.max(np.abs(f[sub] - c))) for f, c in zip(fine, coarse)) / 15.0
