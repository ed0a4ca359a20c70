"""Rectangular sampling grids and the torus each one is transformed on.

Grids are cell centered: node ``i`` along an axis sits at
``origin + (i + 1/2) * spacing``, so a periodic axis of ``n`` points with
spacing ``h`` tiles a period of length ``n * h`` exactly.  Truncated
free-space grids carry a padding factor: convolutions extend their fields by
edge replication to that many times the base extent per axis.

``padded_torus(grid)`` is the grid's one real-FFT transform pair, shared by
the heat kernel, the series sweeps and the periodic derivatives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

__all__ = ["Periodic", "FreeSpaceTruncated", "Grid", "PaddedTorus", "padded_torus"]

_MIN_POINTS = 8
_MAX_NDIM = 3
_MAX_PADDING = 8.0  # bounds the padded transform at 8x the points per axis


@dataclass(frozen=True)
class Periodic:
    """Wrap-around boundary: the domain is an n-torus."""


@dataclass(frozen=True)
class FreeSpaceTruncated:
    """Truncated free-space boundary.

    The heat kernel acts on a torus of ``padding_factor`` times the base
    extent per axis (rounded up to a fast FFT length), with the grid in its
    middle and the field continued by its edge values.  Within the padded
    extent a field is therefore the constant edge value beyond the grid;
    where the torus wraps, the two edges meet.  The factor must lie in
    [1, 8]; 1 means no padding, so the grid is treated as periodic.
    """

    padding_factor: float = 2.0

    def __post_init__(self):
        if not 1.0 <= self.padding_factor <= _MAX_PADDING:
            raise ValueError(
                f"padding_factor must be in [1, {_MAX_PADDING:g}], got {self.padding_factor}"
            )


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular lattice in 1, 2 or 3 dimensions.

    Parameters
    ----------
    points : tuple of int
        Number of nodes per dimension, each at least 8.
    spacing : tuple of float
        Node spacing per dimension, strictly positive.
    origin : tuple of float
        Lower corner of the domain box (nodes are offset half a cell inward).
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
        if any(n < _MIN_POINTS for n in points):
            raise ValueError(f"each dimension needs >= {_MIN_POINTS} points, got {points}")
        if any(not h > 0 for h in spacing):
            raise ValueError(f"spacings must be positive, got {spacing}")
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

    On a padded torus the inverse goes one axis at a time and crops each
    axis right after its pass, so later passes run on fewer points; no pass
    mixes the points of another axis, so the crop equals that of the full
    inverse transform.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.padded = not grid.is_periodic
        if self.padded:
            factor = grid.boundary.padding_factor
            self.shape = tuple(
                scipy.fft.next_fast_len(math.ceil(factor * n), real=True) for n in grid.points
            )
        else:
            self.shape = grid.shape
        ndim = grid.ndim
        lows = [(m - n) // 2 for m, n in zip(self.shape, grid.points)]
        self._pad = tuple((lo, m - n - lo) for lo, m, n in zip(lows, self.shape, grid.points))
        self._crops = []
        for d, (lo, n) in enumerate(zip(lows, grid.points)):
            crop = [slice(None)] * ndim
            crop[d] = slice(lo, lo + n)
            self._crops.append((Ellipsis, *crop))
        self._axes = tuple(range(-ndim, 0))
        last = ndim - 1
        k2 = np.zeros(())
        ik = []
        for d, (m, h) in enumerate(zip(self.shape, grid.spacing)):
            freq = np.fft.rfftfreq(m, d=h) if d == last else np.fft.fftfreq(m, d=h)
            axis_shape = [1] * ndim
            axis_shape[d] = len(freq)
            k = 2.0 * np.pi * freq
            k2 = k2 + (k**2).reshape(axis_shape)
            # the unpaired Nyquist mode sits at index m/2 of an even axis
            ik.append((1j * k * (np.arange(len(k)) != m / 2)).reshape(axis_shape))
        for symbol in (k2, *ik):
            symbol.setflags(write=False)
        self.k2, self.ik = k2, tuple(ik)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Half spectrum of the (edge-padded) field."""
        if self.padded:
            batch = ((0, 0),) * (values.ndim - self.grid.ndim)
            values = np.pad(values, batch + self._pad, mode="edge")
        return scipy.fft.rfftn(values, axes=self._axes)

    def inverse(self, spectrum: np.ndarray) -> np.ndarray:
        """Grid values of a half spectrum, as a new contiguous array.

        The crop is copied so that no result keeps the padded array alive.
        """
        if not self.padded:
            return scipy.fft.irfftn(spectrum, s=self.shape, axes=self._axes)
        last = self.grid.ndim - 1
        for d in range(last):
            spectrum = scipy.fft.ifft(spectrum, axis=self._axes[d])[self._crops[d]]
        spectrum = scipy.fft.irfft(spectrum, n=self.shape[last], axis=-1)
        return spectrum[self._crops[last]].copy()

    def damping(self, t: float) -> np.ndarray:
        """exp(-t |k|^2): the kernel K(., t) on the half spectrum."""
        return np.exp(-t * self.k2)

    def summary(self) -> dict:
        """Engine and padding, as recorded in a run's manifest."""
        return {
            "name": "spectral-rfft",
            "padding": "edge" if self.padded else "none",
            "padded_shape": list(self.shape),
        }


@functools.lru_cache(maxsize=64)
def padded_torus(grid: Grid) -> PaddedTorus:
    """The shared, read-only transform pair of ``grid``."""
    return PaddedTorus(grid)
