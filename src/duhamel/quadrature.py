"""Quadrature helpers on uniform node sequences.

The corrected cumulative trapezoid adds Euler-Maclaurin endpoint terms built
from the samples' 4th-order slopes (``fields._fd_first``, the free-space
first derivative), lifting the composite rule from 2nd to 4th order without
leaving the sample grid.  Line integrals of sampled velocity fields need that
extra accuracy to stay below the potential reconstruction budgets.
"""

from __future__ import annotations

import numpy as np

from .fields import _fd_first

__all__ = ["corrected_cumulative_trapezoid"]


def corrected_cumulative_trapezoid(samples: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Cumulative trapezoid with h^2/12 endpoint-derivative corrections.

    ``I_m = trapezoid(f_0..f_m) - h^2/12 * (f'_m - f'_0)``, with the slopes
    estimated from the samples themselves by the five-point stencils of
    ``fields._fd_first``, so at least 5 samples are needed along ``axis``
    (``ValueError`` otherwise).  Exact for cubics; 4th-order accurate for
    smooth integrands.
    """
    v = np.moveaxis(np.asarray(samples, dtype=float), axis, -1)
    if v.shape[-1] < 5:
        raise ValueError(f"the corrected trapezoid needs at least 5 samples, got {v.shape[-1]}")
    base = np.zeros_like(v)
    np.cumsum(0.5 * h * (v[..., 1:] + v[..., :-1]), axis=-1, out=base[..., 1:])
    slopes = _fd_first(v, h, -1)
    base[..., 1:] -= (h * h / 12.0) * (slopes[..., 1:] - slopes[..., 0:1])
    return np.moveaxis(base, -1, axis)
