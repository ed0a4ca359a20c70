"""Time-dependent scalar forcings F(x, t): plain functions of (grid, t).

A forcing is either a closed expression over (x, y, z, t), an arbitrary
callable (used by the verification oracles), or a stack of sampled fields
with linear interpolation in time.  Expressions and callables are evaluated
on the grid passed to ``sample``.  A forcing carries no bounds: the series
solver takes sup F and inf F from the node samples it actually uses, and
``sample`` only rejects non-finite values.
"""

from __future__ import annotations

import numpy as np

from .expressions import Expression, compile_expression
from .grid import Grid

__all__ = ["Forcing", "interpolate_in_time"]


def interpolate_in_time(times: np.ndarray, stack: np.ndarray, t: float) -> np.ndarray:
    """Linear interpolation of ``stack[j]`` (given at ``times[j]``) at ``t``.

    Constant beyond the first and last time.
    """
    if t <= times[0]:
        return stack[0]
    if t >= times[-1]:
        return stack[-1]
    j = int(np.searchsorted(times, t) - 1)
    w = (t - times[j]) / (times[j + 1] - times[j])
    return (1.0 - w) * stack[j] + w * stack[j + 1]


class Forcing:
    """Scalar source F(grid, t)."""

    def __init__(self, evaluate, kind: str, source=None):
        self._evaluate = evaluate
        self.kind = kind
        self.source = source

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "Forcing":
        value = float(value)
        return cls(lambda grid, t: np.full(grid.shape, value), "constant", value)

    @classmethod
    def zero(cls) -> "Forcing":
        return cls.constant(0.0)

    @classmethod
    def from_expression(cls, source: str | Expression) -> "Forcing":
        """Compile an expression over (x, y, z, t)."""
        expr = source if isinstance(source, Expression) else compile_expression(source)

        def evaluate(grid: Grid, t: float) -> np.ndarray:
            env = dict(zip(("x", "y", "z"), grid.meshgrid()))
            env["t"] = np.float64(t)  # numpy scalar: 1/0 gives inf, not ZeroDivisionError
            return expr(**env)

        return cls(evaluate, "expression", expr.source)

    @classmethod
    def from_callable(cls, fn) -> "Forcing":
        """Wrap ``fn(grid, t) -> ndarray``."""
        return cls(fn, "callable")

    @classmethod
    def from_samples(cls, times, fields) -> "Forcing":
        """Sampled stack with linear interpolation in t; constant beyond the ends."""
        times = np.asarray([float(t) for t in times])
        fields = list(fields)
        if len(times) != len(fields) or len(fields) == 0:
            raise ValueError("need one field per sample time")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        grid = fields[0].grid
        if any(f.grid != grid for f in fields):
            raise ValueError("all sampled fields must share one grid")
        stack = np.stack([f.values for f in fields])

        def evaluate(g: Grid, t: float) -> np.ndarray:
            if g != grid:
                raise ValueError("sampled forcing queried on a different grid")
            return interpolate_in_time(times, stack, t)

        return cls(evaluate, "sampled", (times, stack))

    # -- evaluation -----------------------------------------------------------

    def sample(self, grid: Grid, t: float) -> np.ndarray:
        """F on ``grid`` at time ``t``; raises on non-finite values."""
        vals = np.asarray(self._evaluate(grid, float(t)), dtype=float)
        if vals.shape != grid.shape:
            vals = vals * np.ones(grid.shape)
        if not np.isfinite(vals).all():
            raise ValueError(f"forcing produced non-finite values at t={t}")
        return vals

    def halved(self) -> "Forcing":
        """Pointwise half of this forcing."""
        inner = self._evaluate
        return Forcing(
            lambda grid, t: 0.5 * np.asarray(inner(grid, t), dtype=float),
            self.kind,
            self.source,
        )

    def __repr__(self):
        return f"Forcing(kind={self.kind!r})"
