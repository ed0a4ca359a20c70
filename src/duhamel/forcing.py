"""Time-dependent scalar forcings F(x, t): plain functions of (grid, times).

A forcing is either a closed expression over (x, y, z, t), an arbitrary
callable (used by the verification oracles), or a stack of sampled fields
with linear interpolation in time.  ``sample(grid, times)`` returns the whole
``(len(times), *grid.shape)`` stack on the grid it is given.  Expressions are
evaluated once over the open (t, x, y, z) lattice, so numpy broadcasting
computes each subexpression only over the axes it depends on; callables and
sampled stacks are evaluated time by time.  A forcing carries no bounds: the
series solver takes sup F and inf F from the node samples it actually uses,
and ``sample`` only rejects non-finite values.
"""

from __future__ import annotations

import numpy as np

from .expressions import Expression, compile_expression
from .grid import Grid

__all__ = ["Forcing", "evaluate_expression", "interpolate_in_time"]


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


def evaluate_expression(expr: Expression, axes, times) -> np.ndarray:
    """``expr`` on the lattice ``times`` x ``axes[0]`` x ....

    The result has shape ``(len(times), *map(len, axes))``; ``axes`` are the
    1-D coordinates bound to x, y, z in order.  Each variable is an open
    coordinate (t shaped ``(n_t, 1, ...)``, x ``(1, n_x, 1, ...)``), so a
    subexpression costs only the size of the axes it uses.  Time is an array,
    so a division by zero gives inf (which callers reject), never an exception.
    """
    t, *coords = np.meshgrid(np.asarray(times, dtype=float), *axes, indexing="ij", sparse=True)
    env = dict(zip(("x", "y", "z"), coords), t=t)
    values = np.asarray(expr(**env), dtype=float)
    shape = t.shape[:1] + tuple(len(a) for a in axes)
    return values if values.shape == shape else np.broadcast_to(values, shape)


class Forcing:
    """Scalar source F(grid, t).

    ``evaluate(grid, times)`` returns an array that broadcasts to the
    ``(len(times), *grid.shape)`` stack; ``sample`` fills and checks it.
    """

    def __init__(self, evaluate, kind: str, source=None):
        self._evaluate = evaluate
        self.kind = kind
        self.source = source

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "Forcing":
        value = float(value)
        return cls(lambda grid, times: value, "constant", value)

    @classmethod
    def zero(cls) -> "Forcing":
        return cls.constant(0.0)

    @classmethod
    def from_expression(cls, source: str | Expression) -> "Forcing":
        """Compile an expression over (x, y, z, t)."""
        expr = source if isinstance(source, Expression) else compile_expression(source)

        def evaluate(grid: Grid, times: np.ndarray) -> np.ndarray:
            return evaluate_expression(expr, [grid.coords(d) for d in range(grid.ndim)], times)

        return cls(evaluate, "expression", expr.source)

    @classmethod
    def from_callable(cls, fn) -> "Forcing":
        """Wrap ``fn(grid, t) -> ndarray``, called once per sample time."""

        def evaluate(grid: Grid, times: np.ndarray) -> np.ndarray:
            return np.stack([np.broadcast_to(np.asarray(fn(grid, float(t)), dtype=float), grid.shape)
                             for t in times])

        return cls(evaluate, "callable")

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

        def evaluate(g: Grid, at: np.ndarray) -> np.ndarray:
            if g != grid:
                raise ValueError("sampled forcing queried on a different grid")
            return np.stack([interpolate_in_time(times, stack, float(t)) for t in at])

        return cls(evaluate, "sampled", (times, stack))

    # -- evaluation -----------------------------------------------------------

    def sample(self, grid: Grid, times) -> np.ndarray:
        """F on ``grid`` at each of ``times``, as a ``(len(times), *grid.shape)`` stack.

        ``times`` is a 1-D sequence.  Raises on non-finite values, naming the
        first time that has one.
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ValueError("forcing sample times must be a 1-D sequence")
        shape = times.shape + grid.shape
        vals = np.asarray(self._evaluate(grid, times), dtype=float)
        if vals.shape != shape or not vals.flags.writeable:
            vals = np.array(np.broadcast_to(vals, shape))
        finite = np.isfinite(vals).reshape(len(times), -1).all(axis=1)
        if not finite.all():
            bad = times[int(np.argmin(finite))]
            raise ValueError(f"forcing produced non-finite values at t={bad}")
        return vals

    def halved(self) -> "Forcing":
        """Pointwise half of this forcing."""
        inner = self._evaluate
        return Forcing(
            lambda grid, times: 0.5 * np.asarray(inner(grid, times), dtype=float),
            self.kind,
            self.source,
        )

    def __repr__(self):
        return f"Forcing(kind={self.kind!r})"
