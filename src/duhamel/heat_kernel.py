"""Gaussian heat kernel evaluation and K(., t) * field convolution.

Every grid convolves on a torus through its real Fourier transform: the
half-spectrum coefficients are multiplied by exp(-|k|^2 t), the exact
semigroup on the torus's discrete modes.  A periodic grid is its own torus.
A truncated free-space grid is extended by edge replication to
``padding_factor`` times its extent per axis, rounded up to a fast transform
length; the convolution runs on that padded torus and is cropped back to the
grid.  The series solver's order sweeps use the same transform pair.

The kernel has unit diffusivity; a diffusivity D is the time unit tau = D t.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.fft

from .fields import ScalarField
from .grid import Grid

__all__ = ["PaddedTorus", "padded_torus", "KernelApplication", "kernel_eval", "convolve",
           "convolve_times"]


def kernel_eval(x, t: float) -> float:
    """Heat kernel density (4 pi t)^(-n/2) exp(-|x|^2 / (4 t)).

    ``x`` may be a scalar (n = 1) or a length-n point.
    """
    if not t > 0:
        raise ValueError(f"kernel time must be positive, got {t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r2 = float(np.dot(x, x))
    return (4.0 * math.pi * t) ** (-0.5 * x.size) * math.exp(-r2 / (4.0 * t))


class PaddedTorus:
    """Real-FFT transform pair for the fields of one grid.

    ``shape`` is the torus shape: the grid shape on periodic grids, the
    edge-padded shape on free-space grids, with the grid centred in it.
    ``k2`` holds |k|^2 on the half spectrum that ``forward`` returns.

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
        for d, (m, h) in enumerate(zip(self.shape, grid.spacing)):
            freq = np.fft.rfftfreq(m, d=h) if d == last else np.fft.fftfreq(m, d=h)
            axis_shape = [1] * ndim
            axis_shape[d] = len(freq)
            k2 = k2 + ((2.0 * np.pi * freq) ** 2).reshape(axis_shape)
        k2.setflags(write=False)
        self.k2 = k2

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


class KernelApplication:
    """Heat-kernel convolution operator on one grid at one time.

    ``t = 0`` is the identity.
    """

    def __init__(self, grid: Grid, t: float):
        if t < 0:
            raise ValueError(f"kernel time must be >= 0, got {t}")
        self.grid = grid
        self.t = float(t)

    def apply(self, field: ScalarField) -> ScalarField:
        if field.grid != self.grid:
            raise ValueError("field grid does not match the kernel grid")
        if self.t == 0.0:
            return field
        return self._apply_spectrum(padded_torus(self.grid).forward(field.values))

    def _apply_spectrum(self, spectrum: np.ndarray) -> ScalarField:
        torus = padded_torus(self.grid)
        return ScalarField(self.grid, torus.inverse(spectrum * torus.damping(self.t)))


def convolve(field: ScalarField, t: float) -> ScalarField:
    """K(., t) * field; the t = 0 limit returns the field unchanged."""
    return KernelApplication(field.grid, t).apply(field)


def convolve_times(field: ScalarField, times) -> list[ScalarField]:
    """K(., t) * field at each of ``times``, from one forward transform."""
    apps = [KernelApplication(field.grid, t) for t in times]
    spectrum = padded_torus(field.grid).forward(field.values)
    return [field if app.t == 0.0 else app._apply_spectrum(spectrum) for app in apps]
