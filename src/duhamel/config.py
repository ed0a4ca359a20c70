"""Run configuration schema: strict JSON with machine-readable errors.

Unknown keys are rejected at every level, so stale or misspelled options
never silently change a run.  ``_SECTIONS`` declares the leaves of the
``series`` section and of each run kind's section, in checking order, with
whether each is required and the ``_Checker`` method that parses it; one
walker, ``_Checker.leaves``, rejects a section's unknown keys, reports its
missing ones and parses every present leaf under its dotted path.  The top
level admits only the run kind's own section.  ``load_config`` raises
``ConfigError`` whose ``errors`` list ({"path", "message"} records) is what
the CLI serializes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .expressions import Expression, ExpressionError, compile_expression
from .fields import ScalarField, VectorField
from .forcing import Forcing
from .grid import FreeSpaceTruncated, Grid, Periodic
from .series import SeriesOptions

__all__ = ["ConfigError", "RunConfig", "load_config"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{e['path']}: {e['message']}" for e in self.errors))


class _Checker:
    def __init__(self):
        self.errors: list[dict] = []
        # the grid's axis count once it parses; until then an expression may
        # use every axis, and a per-axis list may have any length
        self.ndim: int | None = None

    def fail(self, path: str, message: str):
        self.errors.append({"path": path, "message": message})

    def section(self, obj, path: str, allowed, required):
        if not isinstance(obj, dict):
            self.fail(path, "must be an object")
            return False
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown key")
        ok = True
        for key in required:
            if key not in obj:
                self.fail(f"{path}.{key}" if path else key, "missing required key")
                ok = False
        return ok

    def leaves(self, obj, path: str, schema) -> dict | None:
        """Section ``obj``'s present leaves parsed by ``schema``'s (key,
        required, parse) rows, in order (``None`` where a leaf is wrong), or
        ``None`` if ``obj`` is not an object or lacks a required leaf."""
        if not self.section(obj, path, [key for key, _, _ in schema],
                            [key for key, required, _ in schema if required]):
            return None
        return {key: parse(self, obj[key], f"{path}.{key}") for key, _, parse in schema if key in obj}

    def number(self, obj, path: str, positive=False, nonneg=False):
        if not isinstance(obj, (int, float)) or isinstance(obj, bool):
            self.fail(path, "must be a number")
            return None
        v = float(obj)
        if not math.isfinite(v):
            self.fail(path, "must be finite")
            return None
        if positive and not v > 0:
            self.fail(path, "must be positive")
            return None
        if nonneg and v < 0:
            self.fail(path, "must be nonnegative")
            return None
        return v

    def positive(self, obj, path: str):
        return self.number(obj, path, positive=True)

    def integer(self, obj, path: str, minimum: int = 0):
        if not isinstance(obj, int) or isinstance(obj, bool):
            self.fail(path, "must be an integer")
            return None
        if obj < minimum:
            self.fail(path, f"must be at least {minimum}")
            return None
        return obj

    def numbers(self, obj, path: str, length: int | None = None, **kw):
        """A list of numbers (non-empty, or exactly ``length`` long), checked entrywise."""
        if not isinstance(obj, list) or not obj or (length is not None and len(obj) != length):
            size = "non-empty" if length is None else f"{length}-entry"
            self.fail(path, f"must be a {size} list of numbers")
            return None
        values = [self.number(v, f"{path}[{i}]", **kw) for i, v in enumerate(obj)]
        return None if None in values else values

    def point(self, obj, path: str):
        """A tuple of one number per grid axis."""
        values = self.numbers(obj, path, self.ndim)
        return values and tuple(values)

    def expressions(self, obj, path: str):
        """A list of one expression per grid axis, each compiled."""
        if not isinstance(obj, list) or (self.ndim is not None and len(obj) != self.ndim):
            self.fail(path, "must be a list of one expression per axis")
            return None
        return [self.expression(v, f"{path}[{i}]") for i, v in enumerate(obj)]

    def expression(self, obj, path: str):
        if not isinstance(obj, str):
            self.fail(path, "must be an expression string")
            return None
        try:
            expr = compile_expression(obj)
        except ExpressionError as exc:
            self.fail(path, str(exc))
            return None
        missing = [v for v in expr.variables if v not in ("x", "y", "z")[:self.ndim] + ("t",)]
        if missing:
            self.fail(path, f"uses {', '.join(missing)}, which the grid does not have")
            return None
        return expr

    def number_or_expression(self, obj, path: str):
        """A float, or a valid expression string compiled."""
        if isinstance(obj, str):
            return self.expression(obj, path)
        if not isinstance(obj, (int, float)) or isinstance(obj, bool):
            self.fail(path, "must be a number or expression string")
            return None
        return self.number(obj, path)


@dataclass
class RunConfig:
    """Validated run description ready to execute."""

    kind: str
    grid: Grid
    series: SeriesOptions
    seed: int
    output_dir: str
    payload: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def _at_time_zero(self, expr: Expression, path: str) -> np.ndarray:
        """``expr`` on the grid at t = 0; its errors name ``path``."""
        return Forcing.from_expression(expr).labelled(path).sample(self.grid, (0.0,))[0]

    def initial_field(self) -> ScalarField:
        return ScalarField(self.grid, self._at_time_zero(self.payload["initial"], "initial"))

    def velocity_field(self) -> VectorField:
        return VectorField(self.grid, tuple(
            self._at_time_zero(expr, f"velocity[{i}]")
            for i, expr in enumerate(self.payload["velocity"])))

    def forcing(self, key: str) -> Forcing | None:
        """The forcing of leaf ``key``, labelled with it, or ``None`` if unset."""
        spec = self.payload.get(key)
        return None if spec is None else Forcing.make(spec).labelled(key)


_KINDS = ("nse", "parabolic", "controlled-heat")
_TOP_KEYS = ("schema", "kind", "grid", "series", "seed", "output_dir")
_GRID_KEYS = {"points", "spacing", "extent", "origin", "boundary"}
_HORIZON = ("horizon", True, _Checker.positive)
# section -> its leaves in checking order: (key, required, parse), where
# parse(checker, value, path) returns the value parsed or None; a run kind's
# section is named after it, with "_" for "-"
_SECTIONS = {
    "series": (("depth_max", False, _Checker.integer), ("rel_tolerance", False, _Checker.positive),
               ("time_steps", False, lambda chk, v, path: chk.integer(v, path, minimum=1)),
               ("output_times", False, lambda chk, v, path: chk.numbers(v, path, nonneg=True))),
    "controlled_heat": (_HORIZON, ("initial", True, _Checker.expression),
                        ("forcing", False, _Checker.number_or_expression)),
    "nse": (_HORIZON, ("speed_bound", True, _Checker.positive), ("anchor_value", True, _Checker.number),
            ("anchor", True, _Checker.point), ("velocity", True, _Checker.expressions),
            ("pressure_minus_force", False, _Checker.number_or_expression)),
    "parabolic": (_HORIZON, ("initial", True, _Checker.expression),
                  *((name, True, _Checker.number_or_expression) for name in ("A", "a", "c", "f"))),
}


def _parse_grid(obj, chk: _Checker) -> Grid | None:
    if not chk.section(obj, "grid", _GRID_KEYS, {"points", "origin"}):
        return None
    points = obj.get("points")
    if not isinstance(points, list) or not points or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in points
    ):
        chk.fail("grid.points", "must be a list of integers")
        return None
    ndim = len(points)
    if ("spacing" in obj) == ("extent" in obj):
        chk.fail("grid", "give exactly one of spacing or extent")
        return None
    if "spacing" in obj:
        spacing = chk.numbers(obj["spacing"], "grid.spacing", ndim, positive=True)
    else:
        extent = chk.numbers(obj["extent"], "grid.extent", ndim, positive=True)
        # a zero count gets an infinite spacing here; Grid rejects the count first
        spacing = extent and [e / p if p else math.inf for e, p in zip(extent, points)]
    origin = chk.numbers(obj["origin"], "grid.origin", ndim)
    if spacing is None or origin is None:
        return None
    boundary_spec = obj.get("boundary", "periodic")
    if boundary_spec == "periodic":
        boundary = Periodic()
    elif isinstance(boundary_spec, dict) and set(boundary_spec) == {"free_space"}:
        if not chk.section(boundary_spec["free_space"], "grid.boundary.free_space", set(), set()):
            return None
        boundary = FreeSpaceTruncated()
    else:
        chk.fail("grid.boundary", "must be 'periodic' or {'free_space': {}}")
        return None
    try:
        return Grid(tuple(points), tuple(spacing), tuple(origin), boundary)
    except (TypeError, ValueError) as exc:
        chk.fail("grid", str(exc))
        return None


def _parse_series(obj, chk: _Checker) -> SeriesOptions | None:
    kwargs = chk.leaves(obj, "series", _SECTIONS["series"])
    if kwargs is None or None in kwargs.values():
        return None
    try:
        return SeriesOptions(**kwargs)
    except ValueError as exc:
        chk.fail("series", str(exc))
        return None


def load_config(path) -> RunConfig:
    path = Path(path)
    chk = _Checker()
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    # ValueError: bad JSON, bytes or integer length; RecursionError: deep nesting
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError([{"path": str(path), "message": f"cannot read config: {exc}"}])

    kind = raw.get("kind") if isinstance(raw, dict) else None
    # the run kind's own section is required and another kind's is an unknown
    # key; with an invalid kind, no kind section is reported
    own = [kind.replace("-", "_")] if kind in _KINDS else []
    sections = own or [k.replace("-", "_") for k in _KINDS]
    if not chk.section(raw, "", [*_TOP_KEYS, *sections], ["schema", "kind", "grid", *own]):
        raise ConfigError(chk.errors)
    if type(raw["schema"]) is not int or raw["schema"] != SCHEMA_VERSION:
        chk.fail("schema", f"unsupported schema version {raw['schema']!r} (expected {SCHEMA_VERSION})")
    if not own:
        chk.fail("kind", f"must be one of {', '.join(map(repr, _KINDS))}")
        raise ConfigError(chk.errors)

    grid = _parse_grid(raw["grid"], chk)
    if grid is not None:
        chk.ndim = grid.ndim
    series = _parse_series(raw.get("series", {}), chk)

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        chk.fail("seed", "must be an integer")
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        chk.fail("output_dir", "must be a string")

    (section,) = own
    payload = chk.leaves(raw[section], section, _SECTIONS[section]) or {}
    if kind == "parabolic" and grid is not None and (grid.ndim != 1 or grid.is_periodic):
        chk.fail("grid", "parabolic runs need a 1D free-space grid")

    horizon = payload.get("horizon")
    if series is not None and horizon is not None:
        try:
            series.output_indices(horizon)
        except ValueError as exc:
            chk.fail("series.output_times", str(exc))

    if chk.errors:
        raise ConfigError(chk.errors)
    return RunConfig(kind, grid, series, seed, output_dir, payload, raw)
