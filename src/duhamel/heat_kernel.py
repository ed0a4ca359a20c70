"""The heat-kernel convolution K(., t) * field.

Every grid convolves on a torus through its real Fourier transform
(``numpy.fft``): the half-spectrum coefficients are multiplied by
exp(-|k|^2 t), the exact semigroup on the torus's discrete modes, and by the
torus's ``scale``, which normalises its inverse transform.  A periodic grid
is its own torus.  A truncated free-space grid is extended by edge replication to twice its
extent per axis, rounded up to a fast transform length; the convolution runs
on that padded torus and is cropped back to the grid.  That transform pair is
``grid.padded_torus``; the series solver's order sweeps and the periodic
derivatives of ``fields`` use it too.
``KernelApplication`` is the one operator that applies the kernel to a
field, for the series tail estimate and the 3-D worst-case suite.

The kernel has unit diffusivity; a diffusivity D is the time unit tau = D t.
"""

from __future__ import annotations

from .fields import ScalarField
from .grid import Grid, padded_torus

__all__ = ["KernelApplication"]


class KernelApplication:
    """Heat-kernel convolution on one grid at each of ``times``.

    ``apply(field)`` transforms the field once and returns the tuple of
    K(., t) * field for each time; ``t = 0`` is the identity and gives the
    field itself.
    """

    def __init__(self, grid: Grid, times):
        self.grid = grid
        self.times = tuple(float(t) for t in times)
        if not all(t >= 0 for t in self.times):
            raise ValueError(f"kernel times must be >= 0, got {self.times}")

    def apply(self, field: ScalarField) -> tuple[ScalarField, ...]:
        if field.grid != self.grid:
            raise ValueError("field grid does not match the kernel grid")
        torus = padded_torus(self.grid)
        spectrum = torus.forward(field.values)
        return tuple(
            field if t == 0.0
            else ScalarField(self.grid, torus.inverse(spectrum * (torus.scale * torus.damping(t))))
            for t in self.times
        )
