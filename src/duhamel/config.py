"""Run configuration schema: strict JSON with machine-readable errors.

Unknown keys are rejected at every level, so stale or misspelled options
never silently change a run.  ``_SECTIONS`` declares the leaves of every
section (``grid``, ``series`` and each run kind's), in checking order, with
whether each is required and the ``_Checker`` method that parses it; one
walker, ``_Checker.leaves``, rejects a section's unknown keys, reports its
missing ones and parses every present leaf under its dotted path.  A section
that builds an object (the ``Grid``, the ``SeriesOptions``) passes its
constructor, whose ``ValueError`` is reported at the section.  The top level
admits only the run kind's own section.  ``load_config`` raises
``ConfigError`` whose ``errors`` list ({"path", "message"} records) is what
the CLI serializes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
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
        # the grid's axis count once grid.points parses; until then an
        # expression may use every axis, and a per-axis list may have any length
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

    def leaves(self, obj, path: str, schema, build=None):
        """Section ``obj``'s present leaves parsed by ``schema``'s (key,
        required, parse) rows, in order (``None`` where a leaf is wrong), or
        ``None`` if ``obj`` is not an object or lacks a required leaf.  With
        ``build``, ``build(**leaves)`` instead, or ``None`` if a leaf is wrong
        or ``build`` raises, whose message is then reported at ``path``."""
        if not self.section(obj, path, [key for key, _, _ in schema],
                            [key for key, required, _ in schema if required]):
            return None
        parsed = {key: parse(self, obj[key], f"{path}.{key}") for key, _, parse in schema if key in obj}
        if build is None:
            return parsed
        if None in parsed.values():
            return None
        try:
            return build(**parsed)
        except ValueError as exc:
            self.fail(path, str(exc))
            return None

    def number(self, obj, path: str, positive=False, nonneg=False):
        if not isinstance(obj, (int, float)) or isinstance(obj, bool):
            self.fail(path, "must be a number")
            return None
        try:
            v = float(obj)
        except OverflowError:  # an integer literal beyond double range
            v = math.inf
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

    def points(self, obj, path: str):
        """The grid's node counts, a non-empty list of integers; sets ``ndim``."""
        if not isinstance(obj, list) or not obj or any(type(n) is not int for n in obj):
            self.fail(path, "must be a list of integers")
            return None
        self.ndim = len(obj)
        # the spacing and the box ends take each count as a float
        if None in [self.number(n, f"{path}[{i}]") for i, n in enumerate(obj)]:
            return None
        return obj

    def lengths(self, obj, path: str):
        """One positive number per grid axis."""
        return self.numbers(obj, path, self.ndim, positive=True)

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

    def boundary(self, obj, path: str):
        if obj == "periodic":
            return Periodic()
        if isinstance(obj, dict) and set(obj) == {"free_space"}:
            ok = self.section(obj["free_space"], f"{path}.free_space", (), ())
            return FreeSpaceTruncated() if ok else None
        self.fail(path, "must be 'periodic' or {'free_space': {}}")
        return None

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
_HORIZON = ("horizon", True, _Checker.positive)
# section -> its leaves in checking order: (key, required, parse), where
# parse(checker, value, path) is a _Checker method, or one with its keywords
# bound, that returns the value parsed or None; a run kind's section is named
# after it, with "_" for "-"
_SECTIONS = {
    "grid": (("points", True, _Checker.points), ("spacing", False, _Checker.lengths),
             ("extent", False, _Checker.lengths), ("origin", True, _Checker.point),
             ("boundary", False, _Checker.boundary)),
    "series": (("depth_max", False, _Checker.integer), ("rel_tolerance", False, _Checker.positive),
               ("time_steps", False, partial(_Checker.integer, minimum=1)),
               ("output_times", False, partial(_Checker.numbers, nonneg=True))),
    "controlled_heat": (_HORIZON, ("initial", True, _Checker.expression),
                        ("forcing", False, _Checker.number_or_expression)),
    "nse": (_HORIZON, ("speed_bound", True, _Checker.positive), ("anchor_value", True, _Checker.number),
            ("anchor", True, _Checker.point), ("velocity", True, _Checker.expressions),
            ("pressure_minus_force", False, _Checker.number_or_expression)),
    "parabolic": (_HORIZON, ("initial", True, _Checker.expression),
                  *((name, True, _Checker.number_or_expression) for name in ("A", "a", "c", "f"))),
}


def _grid(points, origin, spacing=None, extent=None, boundary=Periodic()) -> Grid:
    if (spacing is None) == (extent is None):
        raise ValueError("give exactly one of spacing or extent")
    if extent is not None:
        # a zero count gets an infinite spacing here; Grid rejects the count first
        spacing = [e / n if n else math.inf for e, n in zip(extent, points)]
    return Grid(tuple(points), tuple(spacing), origin, boundary)


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

    grid = chk.leaves(raw["grid"], "grid", _SECTIONS["grid"], _grid)
    series = chk.leaves(raw.get("series", {}), "series", _SECTIONS["series"], SeriesOptions)

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
