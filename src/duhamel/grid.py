"""Rectangular sampling grids shared by all field types and solvers.

Grids are cell centered: node ``i`` along an axis sits at
``origin + (i + 1/2) * spacing``, so a periodic axis of ``n`` points with
spacing ``h`` tiles a period of length ``n * h`` exactly.  Truncated
free-space grids carry a padding factor: convolutions extend their fields by
edge replication to that many times the base extent per axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Periodic", "FreeSpaceTruncated", "Grid"]

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

    def wavenumbers(self, axis: int) -> np.ndarray:
        """Angular wavenumbers for the discrete Fourier modes of one axis.

        Only meaningful on periodic grids, where mode ``k`` corresponds to
        ``exp(i k x)`` with the axis period ``n * h``.
        """
        n, h = self.points[axis], self.spacing[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=h)

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
