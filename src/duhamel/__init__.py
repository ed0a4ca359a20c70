"""Convolution-series solvers built on the heat-kernel semigroup.

The package solves the controlled heat equation dG/dt = Lap(G) + F G by a
truncated Duhamel series, maps potential-flow Navier-Stokes problems onto it
through the Cole-Hopf transformation, normalizes 1D parabolic equations to
the same machinery, and ships independent finite-difference oracles plus
pointwise bound-verification suites.
"""

from .expressions import Expression, ExpressionError, compile_expression
from .fields import ScalarField, Trajectory, VectorField, curl_residual
from .forcing import Forcing
from .grid import FreeSpaceTruncated, Grid, Periodic
from .heat_kernel import KernelApplication
from .series import (
    BoundReport,
    SeriesOptions,
    SeriesSolution,
    ceiling_check,
    floor_check,
    solve_controlled_heat,
    termwise_factorial_check,
)

__version__ = "0.1.0"

__all__ = [
    "Expression",
    "ExpressionError",
    "compile_expression",
    "ScalarField",
    "VectorField",
    "Trajectory",
    "curl_residual",
    "Forcing",
    "Grid",
    "Periodic",
    "FreeSpaceTruncated",
    "KernelApplication",
    "SeriesOptions",
    "SeriesSolution",
    "BoundReport",
    "solve_controlled_heat",
    "ceiling_check",
    "termwise_factorial_check",
    "floor_check",
    "__version__",
]
