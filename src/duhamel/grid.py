"""Rectangular sampling grids and the torus each one is transformed on.

Grids are cell centered: node ``i`` along an axis sits at
``origin + (i + 1/2) * spacing``, so a periodic axis of ``n`` points with
spacing ``h`` tiles a period of length ``n * h`` exactly.  Convolutions on
truncated free-space grids extend their fields by edge replication to twice
the base extent per axis, rounded up to a fast FFT length (the next
5-smooth one).

``padded_torus(grid)`` is the grid's one real-FFT transform pair, on
``numpy.fft``, shared by ``heat_kernel.KernelApplication``, which applies
and sweeps the heat kernel, and by the periodic derivatives.  Both halves go
one axis at a time: the forward transform pads each axis right before its
pass, and the inverse crops each axis right after its pass.  A periodic grid
is the case with no padding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Periodic", "FreeSpaceTruncated", "Grid", "PaddedTorus", "padded_torus"]

MIN_POINTS = 8
_MAX_NDIM = 3
_FAST_FACTORS = (2, 3, 5)  # the radices a fast transform length is built from


@dataclass(frozen=True)
class Periodic:
    """Wrap-around boundary: the domain is an n-torus."""


@dataclass(frozen=True)
class FreeSpaceTruncated:
    """Truncated free-space boundary.

    The heat kernel acts on a torus of twice the base extent per axis
    (rounded up to a fast FFT length), with the grid in its middle and the
    field continued by its edge values.  Within the padded extent a field is
    therefore the constant edge value beyond the grid; where the torus wraps,
    the two edges meet, half a grid extent away from either edge.  To move
    that seam farther out, widen the grid.
    """


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular lattice in 1, 2 or 3 dimensions.

    Parameters
    ----------
    points : tuple of int
        Number of nodes per dimension, each at least 8.
    spacing : tuple of float
        Node spacing per dimension, strictly positive and finite.
    origin : tuple of float
        Lower corner of the domain box, finite (nodes are offset half a cell
        inward).  The box must lie in double range, and each spacing must
        exceed twice the rounding step of the largest coordinate on its axis,
        so that the node coordinates stay distinct.
    boundary : Periodic or FreeSpaceTruncated
    """

    points: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...]
    boundary: Periodic | FreeSpaceTruncated = Periodic()

    def __post_init__(self):
        points = tuple(int(n) for n in self.points)
        spacing = tuple(float(h) for h in self.spacing)
        origin = tuple(float(o) for o in self.origin)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)
        ndim = len(points)
        if not 1 <= ndim <= _MAX_NDIM:
            raise ValueError(f"grid dimension must be 1..{_MAX_NDIM}, got {ndim}")
        if len(spacing) != ndim or len(origin) != ndim:
            raise ValueError("points, spacing and origin must have equal length")
        if any(n < MIN_POINTS for n in points):
            raise ValueError(f"each dimension needs >= {MIN_POINTS} points, got {points}")
        if any(not 0 < h < math.inf for h in spacing):
            raise ValueError(f"spacings must be positive and finite, got {spacing}")
        if not all(math.isfinite(o) for o in origin):
            raise ValueError(f"origins must be finite, got {origin}")
        for d, (n, h, o) in enumerate(zip(points, spacing, origin)):
            # the nodes are affine in their index, so the box ends bound every rounding step
            reach = max(abs(o), abs(o + n * h))
            if not h > 2.0 * math.ulp(reach):
                raise ValueError(f"axis {d}: spacing {h:g} does not separate node coordinates "
                                 f"of size {reach:g} in floating point")
        if not isinstance(self.boundary, (Periodic, FreeSpaceTruncated)):
            raise TypeError("boundary must be Periodic or FreeSpaceTruncated")

    @property
    def ndim(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def is_periodic(self) -> bool:
        return isinstance(self.boundary, Periodic)

    def extent(self, axis: int) -> float:
        """Base domain length along ``axis`` (n cells of width h)."""
        return self.points[axis] * self.spacing[axis]

    @property
    def max_extent(self) -> float:
        return max(self.extent(d) for d in range(self.ndim))

    def coords(self, axis: int) -> np.ndarray:
        """Cell-centered node coordinates along one axis."""
        n, h, o = self.points[axis], self.spacing[axis], self.origin[axis]
        return o + (np.arange(n) + 0.5) * h

    def meshgrid(self) -> list[np.ndarray]:
        """Full coordinate arrays, one per dimension, ``ij`` indexed."""
        return list(np.meshgrid(*(self.coords(d) for d in range(self.ndim)), indexing="ij"))

    def nearest_node(self, point) -> tuple[int, ...]:
        """Multi-index of the grid node closest to ``point``."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.shape != (self.ndim,):
            raise ValueError(f"point must have {self.ndim} coordinates")
        idx = []
        for d in range(self.ndim):
            i = int(round((point[d] - self.origin[d]) / self.spacing[d] - 0.5))
            idx.append(min(max(i, 0), self.points[d] - 1))
        return tuple(idx)


class PaddedTorus:
    """Real-FFT transform pair for the fields of one grid.

    ``shape`` is the torus shape: the grid shape on periodic grids, the
    edge-padded shape on free-space grids, with the grid centred in it.
    On the half spectrum that ``forward`` returns, ``k2`` holds |k|^2 and
    ``ik[d]`` holds i k_d, with the unpaired Nyquist mode of an even axis
    zeroed so that the first derivative of a real field stays real.

    Both transforms act on the trailing ``grid.ndim`` axes; leading axes,
    such as the time nodes of a stack, are transformed independently.

    ``inverse`` is unnormalised: the inverse of ``forward(v)`` is
    ``prod(shape) * v``.  ``scale = 1 / prod(shape)`` undoes that factor, and
    each caller folds it into a multiplication of the spectrum it already
    makes (a kernel weight or a derivative symbol), so normalising costs no
    pass over the data.  On power-of-two tori the factor is exact.

    Both transforms go one axis at a time, with ``numpy.fft``, so that no
    pass runs over the rows that padding adds along another axis.  The
    forward transform pads each axis right before its pass: the last axis,
    then its real pass; then each other axis in turn, by replicating the two
    edge planes of the partial spectrum, then its complex pass.  Edge
    replication commutes with the passes over the other axes, and the passes
    run in the order ``rfftn`` uses, so the result is that of ``rfftn`` on
    the fully padded field, bit for bit.  The inverse crops each axis right
    after its pass; no pass mixes the points of another axis, so the crop
    equals that of the full inverse transform.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.padded = not grid.is_periodic
        if self.padded:
            self.shape = tuple(_fast_length(2 * n) for n in grid.points)
        else:
            self.shape = grid.shape
        self.scale = 1.0 / math.prod(self.shape)
        ndim = grid.ndim
        self._lows = tuple((m - n) // 2 for m, n in zip(self.shape, grid.points))
        self._axes = tuple(range(-ndim, 0))
        last = ndim - 1
        k2 = np.zeros(())
        ik = []
        for d, (m, h) in enumerate(zip(self.shape, grid.spacing)):
            freq = np.fft.rfftfreq(m, d=h) if d == last else np.fft.fftfreq(m, d=h)
            axis_shape = [1] * ndim
            axis_shape[d] = len(freq)
            k = 2.0 * np.pi * freq
            # past double range |k|^2 is inf, the value whose kernel weight is 0
            with np.errstate(over="ignore"):
                k2 = k2 + (k**2).reshape(axis_shape)
            # the unpaired Nyquist mode sits at index m/2 of an even axis
            ik.append((1j * k * (np.arange(len(k)) != m / 2)).reshape(axis_shape))
        for symbol in (k2, *ik):
            symbol.setflags(write=False)
        self.k2, self.ik = k2, tuple(ik)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Half spectrum of the (edge-padded) field."""
        last = self.grid.ndim - 1
        spectrum = np.fft.rfft(self._extend(values, last), axis=-1)
        for d in range(last):
            # the spectrum is this transform's own array, so the pass may overwrite it
            spectrum = self._extend(spectrum, d)
            spectrum = np.fft.fft(spectrum, axis=self._axes[d], out=spectrum)
        return spectrum

    def inverse(self, spectrum: np.ndarray) -> np.ndarray:
        """``prod(shape)`` times the grid values of a half spectrum, as a new
        contiguous array; the spectrum is left as it is.

        On a padded torus the crop is copied, so that no result keeps the
        padded array alive.
        """
        last = self.grid.ndim - 1
        for d in range(last):
            # after the first pass, each pass overwrites the array it reads
            spectrum = np.fft.ifft(spectrum, axis=self._axes[d], norm="forward",
                                   out=spectrum if d > 0 else None)
            spectrum = self._crop(spectrum, d)
        values = np.fft.irfft(spectrum, n=self.shape[last], axis=-1, norm="forward")
        return self._crop(values, last).copy() if self.padded else values

    def _extend(self, values: np.ndarray, d: int) -> np.ndarray:
        """``values`` extended along grid axis ``d`` to the torus, by edge replication."""
        axis, low, n = self._axes[d], self._lows[d], self.grid.points[d]
        if self.shape[d] == n:
            return values
        shape = list(values.shape)
        shape[axis] = self.shape[d]
        out = np.empty(shape, values.dtype)
        out[_along(axis, slice(low, low + n))] = values
        out[_along(axis, slice(None, low))] = values[_along(axis, slice(None, 1))]
        out[_along(axis, slice(low + n, None))] = values[_along(axis, slice(n - 1, None))]
        return out

    def _crop(self, values: np.ndarray, d: int) -> np.ndarray:
        """The grid's part of ``values`` along grid axis ``d`` (a view)."""
        low = self._lows[d]
        return values[_along(self._axes[d], slice(low, low + self.grid.points[d]))]

    def summary(self) -> dict:
        """Engine and padding, as recorded in a run's manifest."""
        return {
            "name": "spectral-rfft",
            "padding": "edge" if self.padded else "none",
            "padded_shape": list(self.shape),
        }


def _fast_length(n: int) -> int:
    """The least 5-smooth integer >= n >= 1, a length ``numpy.fft`` transforms fast."""
    m = n
    while True:
        rest = m
        for p in _FAST_FACTORS:
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _along(axis: int, index: slice) -> tuple:
    """Index that applies ``index`` to the negative ``axis`` of an array."""
    return (Ellipsis, index) + (slice(None),) * (-axis - 1)


@functools.lru_cache(maxsize=64)
def padded_torus(grid: Grid) -> PaddedTorus:
    """The shared, read-only transform pair of ``grid``."""
    return PaddedTorus(grid)
