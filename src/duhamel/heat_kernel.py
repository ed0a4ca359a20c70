"""Gaussian heat kernel evaluation and K(., t) * field convolution.

Every grid convolves on a torus through its real Fourier transform: the
half-spectrum coefficients are multiplied by exp(-|k|^2 t), the exact
semigroup on the torus's discrete modes.  A periodic grid is its own torus.
A truncated free-space grid is extended by edge replication to
``padding_factor`` times its extent per axis, rounded up to a fast transform
length; the convolution runs on that padded torus and is cropped back to the
grid.  That transform pair is ``grid.padded_torus``; the series solver's
order sweeps and the periodic derivatives of ``fields`` use it too.

The kernel has unit diffusivity; a diffusivity D is the time unit tau = D t.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import ScalarField
from .grid import Grid, padded_torus

__all__ = ["KernelApplication", "kernel_eval", "convolve", "convolve_times"]


def kernel_eval(x, t: float) -> float:
    """Heat kernel density (4 pi t)^(-n/2) exp(-|x|^2 / (4 t)).

    ``x`` may be a scalar (n = 1) or a length-n point.
    """
    if not t > 0:
        raise ValueError(f"kernel time must be positive, got {t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r2 = float(np.dot(x, x))
    return (4.0 * math.pi * t) ** (-0.5 * x.size) * math.exp(-r2 / (4.0 * t))


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
