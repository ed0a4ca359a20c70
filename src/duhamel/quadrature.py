"""Quadrature helpers on uniform node sequences.

The corrected cumulative trapezoid adds Euler-Maclaurin endpoint terms built
from one-sided finite differences of the samples, lifting the composite rule
from 2nd to 4th order without leaving the sample grid.  Line integrals of
sampled velocity fields need that extra accuracy to stay below the potential
reconstruction budgets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["corrected_cumulative_trapezoid"]


def _edge_slope(v: np.ndarray, h: float) -> np.ndarray:
    """One-sided derivative estimate at index 0 of the last axis."""
    n = v.shape[-1]
    if n >= 5:
        return (
            -25.0 * v[..., 0] + 48.0 * v[..., 1] - 36.0 * v[..., 2] + 16.0 * v[..., 3] - 3.0 * v[..., 4]
        ) / (12.0 * h)
    if n >= 3:
        return (-3.0 * v[..., 0] + 4.0 * v[..., 1] - v[..., 2]) / (2.0 * h)
    return (v[..., 1] - v[..., 0]) / h


def _interior_slope(v: np.ndarray, h: float) -> np.ndarray:
    """4th-order derivative estimates at every node of the last axis."""
    n = v.shape[-1]
    d = np.empty_like(v)
    if n >= 5:
        d[..., 2 : n - 2] = (
            v[..., : n - 4] - 8.0 * v[..., 1 : n - 3] + 8.0 * v[..., 3 : n - 1] - v[..., 4:n]
        ) / (12.0 * h)
        # offset 4th-order stencils keep cubics exact near the ends
        d[..., 1] = (
            -3.0 * v[..., 0] - 10.0 * v[..., 1] + 18.0 * v[..., 2] - 6.0 * v[..., 3] + v[..., 4]
        ) / (12.0 * h)
        d[..., n - 2] = -(
            -3.0 * v[..., n - 1] - 10.0 * v[..., n - 2] + 18.0 * v[..., n - 3]
            - 6.0 * v[..., n - 4] + v[..., n - 5]
        ) / (12.0 * h)
        d[..., 0] = _edge_slope(v, h)
        d[..., n - 1] = -_edge_slope(v[..., ::-1], h)
    elif n >= 3:
        d[..., 1 : n - 1] = (v[..., 2:] - v[..., : n - 2]) / (2.0 * h)
        d[..., 0] = _edge_slope(v, h)
        d[..., n - 1] = -_edge_slope(v[..., ::-1], h)
    else:
        d[...] = ((v[..., 1] - v[..., 0]) / h)[..., None]
    return d


def corrected_cumulative_trapezoid(samples: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Cumulative trapezoid with h^2/12 endpoint-derivative corrections.

    ``I_m = trapezoid(f_0..f_m) - h^2/12 * (f'_m - f'_0)``, with the slopes
    estimated from the samples themselves.  Exact for cubics; 4th-order
    accurate for smooth integrands.
    """
    v = np.moveaxis(np.asarray(samples, dtype=float), axis, -1)
    base = np.zeros_like(v)
    np.cumsum(0.5 * h * (v[..., 1:] + v[..., :-1]), axis=-1, out=base[..., 1:])
    if v.shape[-1] >= 3:
        slopes = _interior_slope(v, h)
        base[..., 1:] -= (h * h / 12.0) * (slopes[..., 1:] - slopes[..., 0:1])
    return np.moveaxis(base, -1, axis)
