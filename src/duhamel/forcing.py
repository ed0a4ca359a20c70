"""Scalar space-time functions F(t, x[, y, z]): forcings, coefficients, fields.

A ``Forcing`` is a constant, a closed expression over (t, x, y, z), a
callable ``fn(t, x[, y, z])``, or a stack of sampled fields with linear
interpolation in time.  ``sample(grid, times)`` returns the
``(len(times), *grid.shape)`` stack on the grid it is given,
``sample_rows(times, x)`` the ``(len(times), n)`` stack on 1-D nodes that may
move with time, and ``at(grid, t)`` one field.  Expressions are evaluated
once with t an open column and sparse coordinates, so each subexpression
costs only the size of the axes it uses; callables and sampled stacks are
evaluated time by time.  Every path rejects non-finite values.  A forcing
carries no bounds: the series solver takes sup F and inf F from the node
samples it actually uses.
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


def _lattice(grid: Grid) -> list[np.ndarray]:
    """The grid's open coordinates, each with a leading axis of length 1."""
    axes = (grid.coords(d) for d in range(grid.ndim))
    return [c[None] for c in np.meshgrid(*axes, indexing="ij", sparse=True)]


class Forcing:
    """Scalar space-time function F(t, x[, y, z]).

    ``evaluate(times, coords, grid)`` returns an array that broadcasts to
    the sampled stack.  ``coords`` are bound to x, y, z in order, each with a
    leading axis of length 1 or ``len(times)``; ``grid`` is the grid of a
    lattice and ``None`` for rows.  A ``label`` (the name of the config
    leaf or coefficient the function came from) prefixes its errors.
    """

    def __init__(self, evaluate, kind: str, label: str | None = None):
        self._evaluate = evaluate
        self.kind = kind
        self.label = label

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "Forcing":
        value = float(value)
        return cls(lambda times, coords, grid: value, "constant")

    @classmethod
    def zero(cls) -> "Forcing":
        return cls.constant(0.0)

    @classmethod
    def from_expression(cls, source: str | Expression) -> "Forcing":
        """An expression over (t, x, y, z), compiled here unless it already is."""
        expr = source if isinstance(source, Expression) else compile_expression(source)

        def evaluate(times: np.ndarray, coords, grid) -> np.ndarray:
            # t is an open column, so a division by zero gives inf, not an exception
            t = times.reshape((-1,) + (1,) * (coords[0].ndim - 1))
            return expr(t=t, **dict(zip(("x", "y", "z"), coords)))

        return cls(evaluate, "expression")

    @classmethod
    def from_callable(cls, fn) -> "Forcing":
        """Wrap ``fn(t, x[, y, z]) -> ndarray``, called once per time with a float ``t``."""

        def evaluate(times: np.ndarray, coords, grid) -> np.ndarray:
            shape = np.broadcast_shapes(*(c.shape[1:] for c in coords))
            rows = ([c[i if len(c) > 1 else 0] for c in coords] for i in range(len(times)))
            return np.stack([np.broadcast_to(np.asarray(fn(float(t), *row), dtype=float), shape)
                             for t, row in zip(times, rows)])

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

        def evaluate(query: np.ndarray, coords, on: Grid | None) -> np.ndarray:
            if on != grid:
                raise ValueError("sampled forcing queried on a different grid")
            return np.stack([interpolate_in_time(times, stack, float(t)) for t in query])

        return cls(evaluate, "sampled")

    @classmethod
    def make(cls, value) -> "Forcing":
        """From a number, an expression (source or compiled), a callable or a ``Forcing``."""
        if isinstance(value, Forcing):
            return value
        if isinstance(value, (str, Expression)):
            return cls.from_expression(value)
        if callable(value):
            return cls.from_callable(value)
        return cls.constant(value)

    # -- evaluation -----------------------------------------------------------

    def sample(self, grid: Grid, times) -> np.ndarray:
        """F on ``grid`` at each of the 1-D sequence ``times``: the
        ``(len(times), *grid.shape)`` stack."""
        return self._sampled(times, _lattice(grid), grid)

    def sample_rows(self, times, x) -> np.ndarray:
        """F(times[i], x[i]) as a ``(len(times), n)`` stack; ``x`` is one row
        of n nodes shared by every time or one row per time."""
        return self._sampled(times, [np.atleast_2d(np.asarray(x, dtype=float))], None)

    def at(self, grid: Grid, t: float) -> np.ndarray:
        """F on ``grid`` at the single time ``t``, as a ``grid.shape`` array."""
        return self._sampled([t], _lattice(grid), grid)[0]

    def _sampled(self, times, coords, grid: Grid | None) -> np.ndarray:
        """The filled, writeable stack; raises on non-finite values, naming
        the first time that has one."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ValueError("forcing sample times must be a 1-D sequence")
        shape = times.shape + np.broadcast_shapes(*(c.shape[1:] for c in coords))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # rejected below
            vals = np.asarray(self._evaluate(times, coords, grid), dtype=float)
        if vals.shape != shape or not vals.flags.writeable:
            vals = np.array(np.broadcast_to(vals, shape))
        finite = np.isfinite(vals).reshape(len(times), -1).all(axis=1)
        if not finite.all():
            prefix = f"{self.label}: " if self.label else ""
            raise ValueError(f"{prefix}{self.kind} has non-finite values at t={times[np.argmin(finite)]}")
        return vals

    def labelled(self, label: str) -> "Forcing":
        """This function, with its errors prefixed by ``label``."""
        return Forcing(self._evaluate, self.kind, label)

    def halved(self) -> "Forcing":
        """Pointwise half of this forcing, with the same label."""
        inner = self._evaluate
        return Forcing(lambda *args: 0.5 * np.asarray(inner(*args), dtype=float), self.kind, self.label)

    def __repr__(self):
        return f"Forcing(kind={self.kind!r})"
